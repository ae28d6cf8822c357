"""Homogeneous ternary forms, jets, fat-point systems and resultants.

A form of degree d is a coefficient vector over the deg-lex monomial basis:
exponent triples (a, b, c) with a+b+c = d, ordered lexicographically
descending.  The same order is reused for derivative multi-indices, so all
matrices built here are bit-for-bit reproducible.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .algebra import (
    DegenerateInputError,
    FieldSpec,
    Mat,
    binomial,
    det,
    kernel_basis,
    rank,
    solve_exact,
    up_interpolate,
    up_trim,
)
from .geom import PointConfig, Point, evaluation_rows, monomials, validate_config


@lru_cache(maxsize=None)
def monomial_index(d: int) -> dict:
    return {e: i for i, e in enumerate(monomials(d))}


def basis_size(d: int) -> int:
    return (d + 2) * (d + 1) // 2


@dataclass(frozen=True)
class HForm:
    """Homogeneous ternary form as a deg-lex coefficient vector."""

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != basis_size(self.degree):
            raise ValueError("coefficient count does not match degree")

    def to_json_obj(self, field: FieldSpec) -> dict:
        return {"degree": self.degree, "coeffs": [field.to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json_obj(cls, field: FieldSpec, obj) -> "HForm":
        return cls(obj["degree"], tuple(field.of(c) for c in obj["coeffs"]))


def hf_zero(field: FieldSpec, d: int) -> HForm:
    return HForm(d, (field.zero,) * basis_size(d))


def hf_is_zero(field: FieldSpec, f: HForm) -> bool:
    return all(field.is_zero(c) for c in f.coeffs)


def hf_from_dict(field: FieldSpec, d: int, coeffs: dict) -> HForm:
    idx = monomial_index(d)
    vec = [field.zero] * basis_size(d)
    for e, c in coeffs.items():
        vec[idx[e]] = field.of(c)
    return HForm(d, tuple(vec))


def hf_add(field: FieldSpec, f: HForm, g: HForm) -> HForm:
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    return HForm(f.degree, tuple(field.add(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def hf_sub(field: FieldSpec, f: HForm, g: HForm) -> HForm:
    if f.degree != g.degree:
        raise ValueError("degree mismatch")
    return HForm(f.degree, tuple(field.sub(a, b) for a, b in zip(f.coeffs, g.coeffs)))


def hf_scale(field: FieldSpec, c, f: HForm) -> HForm:
    return HForm(f.degree, tuple(field.mul(c, v) for v in f.coeffs))


def hf_mul(field: FieldSpec, f: HForm, g: HForm) -> HForm:
    d = f.degree + g.degree
    idx = monomial_index(d)
    out = [field.zero] * basis_size(d)
    gmons = monomials(g.degree)
    for i, cf in enumerate(f.coeffs):
        if field.is_zero(cf):
            continue
        (a1, b1, c1) = monomials(f.degree)[i]
        for j, cg in enumerate(g.coeffs):
            if field.is_zero(cg):
                continue
            (a2, b2, c2) = gmons[j]
            k = idx[(a1 + a2, b1 + b2, c1 + c2)]
            out[k] = field.add(out[k], field.mul(cf, cg))
    return HForm(d, tuple(out))


def _dot(field: FieldSpec, a, b):
    """sum(a_i * b_i) in the field: the exact sum of the products, reduced once."""
    return field.of(sum(map(operator.mul, a, b)))


def hf_eval(field: FieldSpec, f: HForm, x: Point):
    return _dot(field, f.coeffs, evaluation_rows(field, (x,), f.degree)[0])


def hf_partial(field: FieldSpec, f: HForm, axis: int) -> HForm:
    """Formal partial derivative along one coordinate axis."""
    if f.degree == 0:
        raise ValueError("cannot differentiate a constant form")
    d = f.degree - 1
    idx = monomial_index(d)
    out = [field.zero] * basis_size(d)
    for (a, b, c), cf in zip(monomials(f.degree), f.coeffs):
        e = [a, b, c]
        if e[axis] == 0 or field.is_zero(cf):
            continue
        k = e[axis]
        e[axis] -= 1
        out[idx[tuple(e)]] = field.add(out[idx[tuple(e)]], field.mul(field.of(k), cf))
    return HForm(d, tuple(out))


def hf_partial_multi(field: FieldSpec, f: HForm, alpha) -> HForm:
    out = f
    for axis in range(3):
        for _ in range(alpha[axis]):
            out = hf_partial(field, out, axis)
    return out


def hf_normalize(field: FieldSpec, f: HForm) -> HForm:
    """Scale so the first nonzero coefficient is 1 (canonical representative)."""
    for c in f.coeffs:
        if not field.is_zero(c):
            return hf_scale(field, field.inv(c), f)
    return f


def hf_div_exact(field: FieldSpec, f: HForm, g: HForm) -> HForm:
    """The form h with f = g*h; raises ValueError when no such form exists."""
    if hf_is_zero(field, g):
        raise ZeroDivisionError("division by the zero form")
    k = f.degree - g.degree
    if k < 0:
        raise ValueError("quotient degree would be negative")
    cols = []
    for e in monomials(k):
        mono = hf_from_dict(field, k, {e: field.one})
        cols.append(hf_mul(field, g, mono).coeffs)
    m = Mat.from_rows([[cols[j][i] for j in range(len(cols))] for i in range(basis_size(f.degree))])
    sol = solve_exact(field, m, list(f.coeffs))
    if sol is None:
        raise ValueError("inexact form division")
    h = HForm(k, tuple(sol))
    if hf_mul(field, g, h).coeffs != f.coeffs:
        raise ValueError("inexact form division")
    return h


# ---------------------------------------------------------------------------
# Linear systems of curves through a configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSystem:
    """Canonical basis of degree-d forms vanishing on a configuration."""

    degree: int
    basis: tuple
    config: PointConfig

    def dim(self) -> int:
        return len(self.basis)


def curves_through(cfg: PointConfig, d: int) -> LinearSystem:
    """Kernel of the evaluation matrix of the configuration in degree d."""
    if d < 1:
        raise ValueError("degree must be positive")
    field = cfg.field
    rows = evaluation_rows(field, cfg.points, d)
    if rows:
        ker = kernel_basis(field, Mat.from_rows(rows))
    else:
        size = basis_size(d)
        ker = [tuple(field.one if i == j else field.zero for i in range(size)) for j in range(size)]
    basis = tuple(HForm(d, tuple(v)) for v in ker)
    return LinearSystem(d, basis, cfg)


def _expected_system(cfg: PointConfig, d: int, dim: int) -> LinearSystem:
    """`curves_through(cfg, d)`; raises `DegenerateInputError` unless its dimension is dim."""
    system = curves_through(cfg, d)
    if system.dim() != dim:
        raise DegenerateInputError(
            f"expected a {dim}-dimensional system, got {system.dim()} (degenerate configuration)"
        )
    return system


def _symbolic_jet_rows(field: FieldSpec, system: LinearSystem, order: int) -> tuple:
    return tuple(tuple(hf_partial_multi(field, f, alpha) for f in system.basis) for alpha in monomials(order))


def _jets_at(field: FieldSpec, jets, x: Point) -> Mat:
    """A matrix of forms, such as the jet rows of `_symbolic_jet_rows`, evaluated at x."""
    return Mat.from_rows([[hf_eval(field, f, x) for f in row] for row in jets])


def jet_matrix(system: LinearSystem, x: Point, k: int) -> Mat:
    """Matrix of order-k partials of the basis, evaluated at x.

    Rows are the multi-indices of weight k (deg-lex), columns the basis
    members.  Its nullity is the dimension of the subsystem vanishing to
    order k+1 at x: by the Euler identity the top-order partials already
    force all lower-order ones (valid in char 0 or p > degree).
    """
    field = system.config.field
    if not 0 <= k <= system.degree:
        raise ValueError("jet order out of range")
    if 0 < field.characteristic() <= system.degree:
        raise ValueError("jet reduction needs characteristic 0 or p > degree")
    return _jets_at(field, _symbolic_jet_rows(field, system, k), x)


def fat_point_dim(cfg: PointConfig, x: Point, k: int, d: int) -> int:
    """dim of degree-d curves through the configuration vanishing to order k at x.

    Meaningful as a jumping test only for x outside the configuration; the
    value is still computed (not an error) when x is one of the points.
    """
    if not 1 <= k <= d:
        raise ValueError("need 1 <= k <= d")
    system = curves_through(cfg, d)
    if system.dim() == 0:
        return 0
    return system.dim() - rank(cfg.field, jet_matrix(system, x, k - 1))


# ---------------------------------------------------------------------------
# Determinants of form-valued matrices
# ---------------------------------------------------------------------------


def _form_det_direct(field: FieldSpec, a) -> HForm:
    """Determinant by Laplace expansion with subset memoization."""
    n = len(a)
    entry_deg = a[0][0].degree
    if n == 0:
        return hf_from_dict(field, 0, {(0, 0, 0): field.one})
    minors = {(): hf_from_dict(field, 0, {(0, 0, 0): field.one})}
    for size in range(1, n + 1):
        nxt = {}
        row = size - 1
        for cols in itertools.combinations(range(n), size):
            acc = hf_zero(field, size * entry_deg)
            for pos, j in enumerate(cols):
                rest = cols[:pos] + cols[pos + 1 :]
                term = hf_mul(field, a[row][j], minors[rest])
                # cofactor sign of entry (row, pos) in the submatrix
                acc = hf_add(field, acc, term) if (row + pos) % 2 == 0 else hf_sub(field, acc, term)
            nxt[cols] = acc
        minors = nxt
    return minors[tuple(range(n))]


def scan_form_matrix(field: FieldSpec, a, flat, threads: int = 1):
    """Rank and determinant mod p of the matrix of forms a at many points.

    One kernel call for the points given as one flat list of coordinates
    or as a `geom.PlaneCoords` range of plane rows, or one per chunk of
    them on `threads` threads (`kernels.scan_in_chunks`); returns the
    kernel's columns (ranks, determinants), with the determinant 0 unless a
    is square and of full rank.  The entries must share one degree.
    """
    if field.kind != "fp":
        raise ValueError("batch evaluation needs a prime field")
    degrees = {f.degree for row in a for f in row}
    if len(degrees) != 1:
        raise ValueError(f"entries of a matrix of forms must share one degree, got {sorted(degrees)}")
    exps = [v for e in monomials(degrees.pop()) for v in e]
    coeffs = [int(c) for row in a for f in row for c in f.coeffs]

    def run(chunk):
        return kernels.form_matrix_scan(coeffs, exps, len(a), len(a[0]), chunk, field.p)

    return kernels.scan_in_chunks(run, flat, threads)


def require_interpolation_grid(field: FieldSpec, what: str, degree: int) -> None:
    """Interpolating a `what` of this degree takes degree + 1 distinct values:
    raise `DegenerateInputError` for a prime field with p <= degree."""
    p = field.characteristic()
    if 0 < p <= degree:
        raise DegenerateInputError(
            f"field {field.tag} too small to interpolate a {what} of degree {degree} (needs p > {degree})"
        )


def _form_det_interpolated(field: FieldSpec, a, total_deg: int) -> HForm:
    """Determinant by evaluation on a deterministic affine grid.

    Takes scalar determinants at (1, s, t) for s, t in a (D+1) x (D+1) grid
    (over F_p in one kernel call), interpolates the bivariate
    dehomogenization and lifts it back to a form of the known total degree.
    """
    D = total_deg
    require_interpolation_grid(field, "determinant", D)
    svals = [field.of(i) for i in range(D + 1)]
    tvals = [field.of(i) for i in range(D + 1)]
    grid = [(field.one, s, t) for s in svals for t in tvals]
    if field.kind == "fp":
        dets = scan_form_matrix(field, a, [c for pt in grid for c in pt])[1]
    else:
        dets = [det(field, _jets_at(field, a, pt)) for pt in grid]
    per_s = [up_interpolate(field, tvals, dets[i * (D + 1) : (i + 1) * (D + 1)]) for i in range(D + 1)]
    coeffs = {}
    for tk in range(D + 1):
        column = [per_s[i][tk] if tk < len(per_s[i]) else field.zero for i in range(D + 1)]
        poly_s = up_interpolate(field, svals, column)
        for sj, c in enumerate(up_trim(field, poly_s)):
            if field.is_zero(c):
                continue
            if sj + tk > D:
                raise ArithmeticError("interpolated determinant exceeds expected degree")
            coeffs[(D - sj - tk, sj, tk)] = c
    return hf_from_dict(field, D, coeffs)


def form_matrix_det(field: FieldSpec, a, total_deg: int) -> HForm:
    """Determinant of a square matrix of forms of uniform degree."""
    n = len(a)
    if n <= 6:
        out = _form_det_direct(field, a)
        if out.degree != total_deg:
            raise ArithmeticError("degree bookkeeping mismatch")
        return out
    return _form_det_interpolated(field, a, total_deg)


# ---------------------------------------------------------------------------
# Monoidal determinant and the extra-jumping-point minors
# ---------------------------------------------------------------------------


def monoidal_matrix(cfg: PointConfig):
    """Square symbolic jet matrix whose determinant is the monoidal curve.

    For an odd configuration of size 2n+1, the rows are the order-(n-2)
    partials of the degree-n system through the points, a square matrix of
    quadric entries of size binom(n, 2).  It drops rank exactly where some
    degree-n curve through the configuration acquires a point of
    multiplicity n-1.
    """
    m = len(cfg)
    if m % 2 == 0 or m < 5:
        raise DegenerateInputError("monoidal determinant needs an odd configuration of >= 5 points")
    n = (m - 1) // 2
    return _symbolic_jet_rows(cfg.field, _expected_system(cfg, n, binomial(n, 2)), n - 2)


def monoidal_det(cfg: PointConfig) -> HForm:
    """Determinant of `monoidal_matrix`: the monoidal curve, of degree n(n-1)."""
    n = (len(cfg) - 1) // 2
    return form_matrix_det(cfg.field, monoidal_matrix(cfg), n * (n - 1))


@dataclass(frozen=True)
class MonoidalFamily:
    """The fat-point systems of an even configuration Z of 2n points: the
    monoidal matrices of the augmented configurations Z + x, all from one
    degree-n system, and the degree-(n-1) system that cuts out Gamma.

    `system` is the degree-n system through Z, of dimension
    binom(n+2, 2) - 2n, `jets` its symbolic order-(n-2) partials (rows:
    multi-indices, columns: basis members) and `lines` the line through each
    pair of points of Z, as a coefficient triple.  The curves through Z + x
    are the members whose values at x combine to zero, so `matrix(x)` is
    `monoidal_matrix(Z + x)` times an invertible change of column
    basis: the two drop rank at the same points.  For n >= 4,
    `gamma_system` is the degree-(n-1) system through Z and `gamma_jets`
    its order-(n-3) partials, `gamma_minor_matrix(Z)`; else None and ().
    Build it with `monoidal_family`, which checks Z.
    """

    config: PointConfig
    system: LinearSystem
    jets: tuple
    lines: tuple
    gamma_system: LinearSystem | None = None
    gamma_jets: tuple = ()

    def values(self, x: Point) -> list:
        """The values of the system's basis at x."""
        field = self.config.field
        ev = evaluation_rows(field, (x,), self.system.degree)[0]
        return [_dot(field, f.coeffs, ev) for f in self.system.basis]

    def reject(self, x: Point) -> str | None:
        """Why Z + x fails `geom.validate_config` in degree n, or None.

        Z passed it when the family was built, so only x can fail: by
        lying on Z, on the line through two of its points, or on every
        curve of the system (then x imposes no new condition).  For such a
        Z the last case implies the second, since at most 2n + 1 points
        fail to impose independent conditions on degree-n curves only when
        n + 2 of them are collinear; it stays as the guard of `matrix`'s
        pivot.
        """
        field = self.config.field
        if x in self.config:
            return f"{x} is a point of the configuration"
        if any(field.is_zero(_dot(field, line, x)) for line in self.lines):
            return f"{x} is collinear with two points of the configuration"
        if all(field.is_zero(v) for v in self.values(x)):
            return f"{x} imposes no condition on degree-{self.system.degree} curves through the configuration"
        return None

    def matrix(self, x: Point) -> list:
        """The jets times a kernel basis C of the row v of values at x.

        With k the first index where v_k != 0, column j != k of C is
        e_j - (v_j / v_k) e_k: a basis of the degree-n curves through Z + x.
        """
        why = self.reject(x)
        if why is not None:
            raise DegenerateInputError(why)
        field = self.config.field
        v = self.values(x)
        k = next(j for j, c in enumerate(v) if not field.is_zero(c))
        ratios = [(j, field.div(c, v[k])) for j, c in enumerate(v) if j != k]
        sub, mul = field.sub, field.mul
        out = []
        for row in self.jets:
            pivot = row[k].coeffs
            out.append([HForm(row[j].degree, tuple(sub(a, mul(r, b)) for a, b in zip(row[j].coeffs, pivot)))
                        for j, r in ratios])
        return out


def monoidal_family(cfg: PointConfig) -> MonoidalFamily:
    """The fat-point systems of an even configuration of >= 4 points.

    Raises `DegenerateInputError` when Z fails `geom.validate_config` in
    degree n or, for n >= 4, the degree-(n-1) system does not have the
    expected dimension.
    """
    field = cfg.field
    m = len(cfg)
    if m % 2 or m < 4:
        raise DegenerateInputError("augmented monoidal curves need an even configuration of >= 4 points")
    n = m // 2
    validate_config(cfg, (n,))
    lines = tuple(
        tuple(field.sub(field.mul(a[u], b[w]), field.mul(a[w], b[u])) for u, w in ((1, 2), (2, 0), (0, 1)))
        for a, b in itertools.combinations(cfg.points, 2)
    )
    # Z imposes independent conditions in degree n: the system has dimension binom(n+2, 2) - 2n
    system = curves_through(cfg, n)
    jets = _symbolic_jet_rows(field, system, n - 2)
    if n < 4:
        return MonoidalFamily(cfg, system, jets, lines)
    # `jumping.pinceau_factorization` evaluates both systems' jets at points
    if 0 < field.characteristic() <= n:
        raise ValueError("jet reduction needs characteristic 0 or p > degree")
    low = _expected_system(cfg, n - 1, n * (n - 3) // 2)
    return MonoidalFamily(cfg, system, jets, lines, low, _symbolic_jet_rows(field, low, n - 3))


def gamma_minor_matrix(cfg: PointConfig):
    """Symbolic jet matrix whose maximal minors cut out the extra jumping points."""
    m = len(cfg)
    if m % 2 or m < 8:
        raise DegenerateInputError("needs an even configuration of >= 8 points")
    n = m // 2
    return _symbolic_jet_rows(cfg.field, _expected_system(cfg, n - 1, n * (n - 3) // 2), n - 3)


def gamma_minors(cfg: PointConfig) -> list:
    """Maximal minors of the symbolic jet matrix for an even configuration.

    Empty for 2n points with n <= 3 (the relevant linear system is empty and
    the locus of extra jumping points is empty as well).
    """
    m = len(cfg)
    if m % 2:
        raise DegenerateInputError("needs an even configuration")
    n = m // 2
    if n <= 3:
        return []
    rows = gamma_minor_matrix(cfg)
    q = len(rows[0])
    field = cfg.field
    out = []
    for skip in range(len(rows)):
        sub = [rows[i] for i in range(len(rows)) if i != skip]
        out.append(form_matrix_det(field, sub, 2 * q))
    return out


# ---------------------------------------------------------------------------
# Sylvester resultants
# ---------------------------------------------------------------------------


class LeadingCoefficientError(DegenerateInputError):
    """Eliminating variable does not reach the total degree: change coordinates."""


def restrict_to_vertical_line(field: FieldSpec, f: HForm, t) -> list:
    """f(1, t, x2) as a polynomial in x2, lowest degree first, trimmed."""
    tpow = [field.one]
    for _ in range(f.degree):
        tpow.append(field.mul(tpow[-1], t))
    out = [field.zero] * (f.degree + 1)
    for (_, b, c), cf in zip(monomials(f.degree), f.coeffs):
        out[c] = field.add(out[c], field.mul(cf, tpow[b]))
    return up_trim(field, out)


def sylvester_resultant(field: FieldSpec, f: HForm, g: HForm) -> HForm:
    """Resultant of two forms with respect to x2.

    Requires both forms to have full degree in x2 (nonzero scalar leading
    coefficient); the result is a binary form in x0, x1 of degree
    deg(f) * deg(g), computed by evaluating the Sylvester determinant at
    x0 = 1 along a deterministic grid of x1 and interpolating.
    """
    df, dg = f.degree, g.degree
    if df < 1 or dg < 1:
        raise ValueError("resultant needs positive degrees")
    # (0, 0, d) is the last monomial: the coefficient of x2^d
    if field.is_zero(f.coeffs[-1]) or field.is_zero(g.coeffs[-1]):
        raise LeadingCoefficientError("leading coefficient in axis 2 vanishes; change coordinates")
    D = df * dg
    require_interpolation_grid(field, "resultant", D)
    ts = [field.of(i) for i in range(D + 1)]
    vals = []
    for t in ts:
        # highest power of x2 first; full length, as the leading coefficient is nonzero
        frow = restrict_to_vertical_line(field, f, t)[::-1]
        grow = restrict_to_vertical_line(field, g, t)[::-1]
        rows = []
        for i in range(dg):
            rows.append([field.zero] * i + frow + [field.zero] * (dg - 1 - i))
        for i in range(df):
            rows.append([field.zero] * i + grow + [field.zero] * (df - 1 - i))
        vals.append(det(field, Mat.from_rows(rows)))
    upoly = up_trim(field, up_interpolate(field, ts, vals))
    return hf_from_dict(field, D, {(D - k, k, 0): c for k, c in enumerate(upoly) if not field.is_zero(c)})


def binary_form_to_upoly(field: FieldSpec, f: HForm):
    """Dehomogenize a form in x0, x1 at x0 = 1.

    Coefficient k of the result multiplies x0^(D-k) x1^k; the form has full
    degree iff the returned polynomial has degree D.
    """
    out = [field.zero] * (f.degree + 1)
    for (_, b, c), cf in zip(monomials(f.degree), f.coeffs):
        if field.is_zero(cf):
            continue
        if c != 0:
            raise ValueError("form involves the eliminated variable")
        out[b] = cf
    return up_trim(field, out)
