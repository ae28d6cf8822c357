"""Pure-Python twins of the compiled scan kernels.

Same conventions as the compiled module `jumplines._fastkern`: flat row-major
int lists, entries reduced mod p, deterministic first-nonzero pivoting.
The scans take their points as a flat coordinate list or as a
`geom.PlaneCoords` range of plane rows, which they enumerate with
`geom.plane_rows`, and return `array('i')` columns.
Used automatically when the extension is not built (or when JUMPLINES_PURE
is set); the two backends must agree bit for bit.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import islice

from ..algebra import is_prime

BACKEND = "pure"

_is_prime = lru_cache(maxsize=None)(is_prime)  # each modulus is tested once


def _check_modulus(p: int) -> None:
    """Every inverse here assumes a prime modulus."""
    if not _is_prime(p):
        raise ValueError(f"the kernels need a prime modulus, got {p}")


def _points(pts, p: int):
    """The points of a scan as (x0, x1, x2) triples: pts is a
    `geom.PlaneCoords` range of plane rows over F_p, or a flat coordinate
    list whose trailing partial triple is ignored."""
    from ..geom import PlaneCoords, plane_rows  # geom imports the kernels

    if not isinstance(pts, PlaneCoords):
        it = iter(pts)
        return zip(it, it, it)
    if pts.p != p:
        raise ValueError(f"a plane range over F_{pts.p} given to a kernel mod {p}")
    if not 0 <= pts.start <= pts.stop <= p * p + p + 1:
        raise ValueError("a plane range must lie within the p*p + p + 1 rows of the plane")
    return plane_rows(p, pts.start, pts.stop)


def _residues(vals, p: int):
    """A column of residues mod p: array('i') when they fit, as those of
    every compiled call do; a list of ints for larger primes."""
    return array("i", vals) if p <= 1 << 31 else list(vals)


def _echelon(a, rows: int, width: int, pcols: int, p: int, reduced: bool = False):
    """Row-reduce the row lists a (residues mod p) in place.

    Pivots on the first pcols columns in order and applies every row
    operation to the whole width; only the rows below each pivot are cleared,
    unless `reduced`, which scales pivot rows to 1 and clears above as well
    (reduced row echelon form).  Returns the pivot columns and the parity of
    the number of row swaps.
    """
    piv = []
    parity = 0
    for c in range(pcols):
        r = len(piv)
        if r == rows:
            break
        sel = r
        while sel < rows and not a[sel][c]:
            sel += 1
        if sel == rows:
            continue
        if sel != r:
            a[r], a[sel] = a[sel], a[r]
            parity ^= 1
        prow = a[r]
        inv = pow(prow[c], p - 2, p)
        if reduced:
            prow = a[r] = [v * inv % p for v in prow]
            inv = 1
        for i in range(0 if reduced else r + 1, rows):
            f = a[i][c] * inv % p
            if f and i != r:
                ai = a[i]
                for j in range(c, width):
                    ai[j] = (ai[j] - f * prow[j]) % p
        piv.append(c)
    return piv, parity


def rank_mod_p(flat, rows: int, cols: int, p: int) -> int:
    _check_modulus(p)
    a = [[v % p for v in flat[i * cols : (i + 1) * cols]] for i in range(rows)]
    return len(_echelon(a, rows, cols, cols, p)[0])


def _rref(m0, rows: int, cols: int, p: int):
    """A copy of the row lists m0 in reduced row echelon form, and its pivot columns."""
    r0 = [row[:] for row in m0]
    return r0, _echelon(r0, rows, cols, cols, p, reduced=True)[0]


def _times_kernel(row, r0, piv, free, p: int) -> list:
    """row*K mod p, K the kernel basis read off the RREF (r0, piv) whose
    non-pivot columns are free: column f of K is e_f - sum_t r0[t][f] e_piv[t]."""
    return [(row[f] - sum(r0[t][f] * row[j] for t, j in enumerate(piv))) % p for f in free]


def _staircase_level(m0, m1, r0, piv, rows: int, cols: int, p: int, m1k=None):
    """One step of the column staircase of the pencil s*M0 + t*M1 (row lists).

    r0 and piv are `_rref(m0)`; m1k is M1*K for the kernel basis K read off
    them, when the caller has it.  Returns (nu, mu, next0, next1): nu = dim
    ker M0, mu = rank of M1 on that kernel, and the (rows - mu) x rank(M0)
    pencil whose column indices are one less than the remaining ones of this
    pencil.
    """
    rho = len(piv)
    free = [j for j in range(cols) if j not in piv]
    nu = len(free)
    # [M1*K | M0 on pivot columns | M1 on pivot columns]
    aug = []
    for i in range(rows):
        row1 = m1[i]
        x = _times_kernel(row1, r0, piv, free, p) if m1k is None else m1k[i]
        aug.append(x + [m0[i][j] for j in piv] + [row1[j] for j in piv])
    mu = len(_echelon(aug, rows, nu + 2 * rho, nu, p)[0])
    rest = aug[mu:]
    return nu, mu, [row[nu : nu + rho] for row in rest], [row[nu + rho :] for row in rest]


def _pencil_degrees(m0, m1, rows: int, cols: int, p: int, level0=None):
    """The two smallest column minimal indices of the pencil s*M0 + t*M1.

    Column staircase (Van Dooren 1979) mod p on the row lists m0, m1
    (residues, left unmodified): at level k, the nu kernel vectors of M0 on
    which M1 has rank mu give nu - mu indices equal to k; dropping those
    kernel columns and the mu rows M1 reaches leaves the pencil of level
    k + 1.  Raises if the generic member is rank deficient or there are
    fewer than two indices.  The generic rank is probed on the members
    (s, t) = (1, 0), (0, 1), (1, 1), (1, 2), (1, 3); the first is M0, whose
    rank level 0's RREF gives, so the others run only when M0 is deficient.
    level0 is (r0, piv, m1k) when the caller has `_rref(m0)`, with m1k its
    level-0 M1*K or None.
    """
    r0, piv, m1k = level0 or (*_rref(m0, rows, cols, p), None)
    best = len(piv)
    for s, t in ((0, 1), (1, 1), (1, 2), (1, 3)):
        if best == rows:
            break
        member = [(s * x + t * y) % p for row0, row1 in zip(m0, m1) for x, y in zip(row0, row1)]
        best = max(best, rank_mod_p(member, rows, cols, p))
    if best < rows:
        raise ArithmeticError("pencil is rank deficient for generic members")
    if cols - rows < 2:
        raise ArithmeticError("pencil kernel is too small")
    found = []
    level = 0
    while len(found) < 2:
        if level:
            r0, piv = _rref(m0, rows, cols, p)
            m1k = None
        nu, mu, m0, m1 = _staircase_level(m0, m1, r0, piv, rows, cols, p, m1k)
        if nu == 0:
            raise ArithmeticError("minimal indices not found within the degree cap")
        found += [level] * (nu - mu)
        rows, cols = rows - mu, cols - nu
        level += 1
    return tuple(found[:2])


def _dual_basis_mod_p(x0: int, x1: int, x2: int, p: int):
    x = (x0 % p, x1 % p, x2 % p)
    if not any(x):
        raise ValueError("(0, 0, 0) is not a point of the plane")
    i0 = 0
    while x[i0] == 0:
        i0 += 1
    inv = pow(x[i0], p - 2, p)
    forms = []
    for j in range(3):
        if j == i0:
            continue
        v = [0, 0, 0]
        v[j] = 1
        v[i0] = (-x[j] * inv) % p
        forms.append(v)
    return forms[0], forms[1]


def splitting_scan(a0, a1, a2, rows: int, cols: int, pts_flat, p: int):
    """Splitting type (eps1, eps2) of the Steiner bundle on each dual line.

    pts_flat holds normalized coordinate triples, or is a `geom.PlaneCoords`
    range of plane rows; returns two array('i') columns, one item per point:
    the two smallest column minimal indices of the pencil restricted to the
    dual line, ascending, each plus the twist 1.  Consecutive points that
    share a form of their dual basis share its member, which is built once
    and reduced once it is shared; the staircase then runs with the shared
    member as B0 (see `splitting_scan` in _fastkern.c).  A shared member of
    full row rank also gets the products A_k*K with its kernel basis K, one
    triple per entry, so that level 0's B1*K is their combination by the
    other form.
    """
    _check_modulus(p)
    points = _points(pts_flat, p)
    entries = [(a0[i], a1[i], a2[i]) for i in range(rows * cols)]
    a_rows = [[a[i * cols : (i + 1) * cols] for i in range(rows)] for a in (a0, a1, a2)]
    eps1, eps2 = array("i"), array("i")
    forms, members, level0 = [None, None], [None, None], [None, None]
    for x0, x1, x2 in points:
        ls = _dual_basis_mod_p(x0, x1, x2, p)
        shared = None
        for h, form in enumerate(ls):
            if form == forms[h]:
                if shared is None:
                    shared = h
                continue
            forms[h], level0[h] = form, None
            c0, c1, c2 = form
            flat = [(c0 * x + c1 * y + c2 * z) % p for x, y, z in entries]
            members[h] = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        if shared is not None and level0[shared] is None:
            r0, piv = _rref(members[shared], rows, cols, p)
            free = [j for j in range(cols) if j not in piv]
            ak = [list(zip(*(_times_kernel(a[i], r0, piv, free, p) for a in a_rows))) for i in range(rows)]
            level0[shared] = r0, piv, ak
        if shared is not None and len(level0[shared][1]) == rows:
            r0, piv, ak = level0[shared]
            c0, c1, c2 = ls[1 - shared]
            m1k = [[(c0 * x + c1 * y + c2 * z) % p for x, y, z in row] for row in ak]
            d1, d2 = _pencil_degrees(members[shared], members[1 - shared], rows, cols, p, (r0, piv, m1k))
        else:
            d1, d2 = _pencil_degrees(members[0], members[1], rows, cols, p)
        eps1.append(d1 + 1)
        eps2.append(d2 + 1)
    return eps1, eps2


MAX_EXP = 1 << 20


def _exponents(exps_flat, nmono: int):
    """The first nmono exponent triples, each exponent in [0, 2**20], and
    their largest total degree."""
    if len(exps_flat) < 3 * nmono:
        raise IndexError("sequence is shorter than the given shape")
    exps = [tuple(exps_flat[3 * i : 3 * i + 3]) for i in range(nmono)]
    if any(not 0 <= v <= MAX_EXP for e in exps for v in e):
        raise ValueError("exponents must lie in [0, 2**20]")
    return exps, max((sum(e) for e in exps), default=0)


def _monomial_values(x0: int, x1: int, x2: int, exps, deg: int, p: int) -> list:
    """Values of the monomials with exponent triples exps at the point x."""
    px, py, pz = [1] * (deg + 1), [1] * (deg + 1), [1] * (deg + 1)
    for i in range(1, deg + 1):
        px[i] = px[i - 1] * x0 % p
        py[i] = py[i - 1] * x1 % p
        pz[i] = pz[i - 1] * x2 % p
    return [px[a] * py[b] % p * pz[c] % p for a, b, c in exps]


def eval_form_many(coeffs, exps_flat, pts_flat, p: int):
    """Values of one form (coefficients + flat exponent triples) at many
    points, as a column of residues (see `_residues`)."""
    _check_modulus(p)
    exps, deg = _exponents(exps_flat, len(coeffs))
    terms = [(k, c % p) for k, c in enumerate(coeffs) if c % p]
    points = _points(pts_flat, p)
    vals = []
    for x0, x1, x2 in points:
        mv = _monomial_values(x0 % p, x1 % p, x2 % p, exps, deg, p)
        vals.append(sum(c * mv[k] for k, c in terms) % p)
    return _residues(vals, p)


def form_matrix_scan(coeffs, exps_flat, rows: int, cols: int, pts_flat, p: int):
    """Rank and determinant of a rows x cols matrix of forms at each point.

    The entries share the monomials of exps_flat; coeffs holds the
    coefficients of each entry in turn, row by row.  Returns two columns,
    one item per point: the ranks of the evaluated matrices, array('i'),
    and their determinants (see `_residues`), each 0 unless the matrix is
    square and of full rank.
    """
    _check_modulus(p)
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    nmono = len(exps_flat) // 3
    exps, deg = _exponents(exps_flat, nmono)
    if len(coeffs) < rows * cols * nmono:
        raise IndexError("sequence is shorter than the given shape")
    entries = [
        [(k, c % p) for k, c in enumerate(coeffs[e * nmono : (e + 1) * nmono]) if c % p]
        for e in range(rows * cols)
    ]
    points = _points(pts_flat, p)
    ranks, dets = array("i"), []
    for x0, x1, x2 in points:
        mv = _monomial_values(x0 % p, x1 % p, x2 % p, exps, deg, p)
        vals = [sum(c * mv[k] for k, c in terms) % p for terms in entries]
        a = [vals[i * cols : (i + 1) * cols] for i in range(rows)]
        piv, parity = _echelon(a, rows, cols, cols, p)
        d = 0
        if rows == cols and len(piv) == rows:
            d = 1
            for i in range(rows):
                d = d * a[i][i] % p
            if parity:
                d = p - d
        ranks.append(len(piv))
        dets.append(d)
    return ranks, _residues(dets, p)


def _check_column(col) -> memoryview:
    view = memoryview(col)
    if view.format != "i" or view.ndim != 1:
        raise ValueError("columns must be array('i')")
    return view


def rows_below(col, bound: int) -> list:
    """Row indices, ascending, of the items of the array('i') column col
    that are below bound."""
    _check_column(col)
    return [i for i, v in enumerate(col) if v < bound]


# one report row (x0, x1, x2, eps1, eps2, order, in_z, in_gamma), written as
# json.dumps(indent=2) writes a list of ints inside the "records" list, and
# as csv.writer writes it
_JSON_ROW = "    [\n" + ",\n".join(["      %d"] * 8) + "\n    ]"
_CSV_ROW = ",".join(["%d"] * 8) + "\n"


def _row_flags(rows, n: int) -> bytearray:
    """One byte per report row, 1 at the row indices `rows`."""
    flags = bytearray(n)
    for i in rows:
        if not 0 <= i < n:
            raise ValueError("report row indices must lie in [0, p*p + p + 1)")
        flags[i] = 1
    return flags


def report_rows(p: int, eps1, eps2, top: int, zrows, grows, csv: bool) -> str:
    """The rows of a full-plane scan report, in `plane_points(p)` order.

    Row i is the point of index i with its splitting type (eps1[i],
    eps2[i]), the order top - eps1[i] and whether i is in zrows and in
    grows.  The columns are array('i') of p*p + p + 1 items.  CSV rows are
    concatenated, JSON rows joined by ",\\n".
    """
    from ..geom import plane_rows

    _check_modulus(p)
    n = p * p + p + 1
    for col in (eps1, eps2):
        if len(_check_column(col)) != n:
            raise ValueError("report columns must be array('i') of p*p + p + 1 items")
    zf, gf = _row_flags(zrows, n), _row_flags(grows, n)
    points = plane_rows(p, 0, n)
    template, sep = (_CSV_ROW, "") if csv else (_JSON_ROW, ",\n")
    rows = (
        template % (x0, x1, x2, a, b, top - a, z, g)
        for (x0, x1, x2), a, b, z, g in zip(points, eps1, eps2, zf, gf)
    )
    # joined p rows at a time, so the row strings of one chunk are freed
    # before the next is formatted: fewer short strings alive at once leave
    # the allocator's arenas less fragmented
    return sep.join([sep.join(islice(rows, p)) for _ in range(p + 2)])
