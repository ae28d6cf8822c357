"""Pure-Python twins of the compiled scan kernels.

Same conventions as the compiled module `jumplines._fastkern`: flat row-major
int lists, entries reduced mod p, deterministic first-nonzero pivoting.
Used automatically when the extension is not built (or when JUMPLINES_PURE
is set); the two backends must agree bit for bit.
"""

from __future__ import annotations

BACKEND = "pure"


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


def pencil_kernel_degrees(b0, b1, rows: int, cols: int, p: int, want: int = 2):
    """First `want` column minimal indices of the pencil s*B0 + t*B1.

    Column staircase (Van Dooren 1979) by exact elimination mod p: at level
    k, the nu kernel vectors of B0 on which B1 has rank mu give nu - mu
    indices equal to k; dropping those kernel columns and the mu rows B1
    reaches leaves the pencil of level k + 1.  Raises if the generic member
    is rank deficient or B0 of some level is injective before `want`
    indices are found.  The generic rank is probed on the members (s, t) =
    (1, 0), (0, 1), (1, 1), (1, 2), (1, 3); the first is B0, whose rank
    level 0's RREF gives, so the others run only when B0 is deficient.
    """
    m0 = [[b0[i * cols + j] % p for j in range(cols)] for i in range(rows)]
    m1 = [[b1[i * cols + j] % p for j in range(cols)] for i in range(rows)]
    return _pencil_degrees(m0, m1, rows, cols, p, want)


def _pencil_degrees(m0, m1, rows: int, cols: int, p: int, want: int, level0=None):
    """`pencil_kernel_degrees` on the row lists m0, m1 (residues), which it
    does not modify.  level0 is (r0, piv, m1k) when the caller already has
    `_rref(m0)`, with m1k its level-0 M1*K or None."""
    r0, piv, m1k = level0 or (*_rref(m0, rows, cols, p), None)
    best = len(piv)
    for s, t in ((0, 1), (1, 1), (1, 2), (1, 3)):
        if best == rows:
            break
        member = [(s * x + t * y) % p for row0, row1 in zip(m0, m1) for x, y in zip(row0, row1)]
        best = max(best, rank_mod_p(member, rows, cols, p))
    if best < rows:
        raise ArithmeticError("pencil is rank deficient for generic members")
    if cols - rows < want:
        raise ArithmeticError("pencil kernel is too small")
    found = []
    level = 0
    while len(found) < want:
        if level:
            r0, piv = _rref(m0, rows, cols, p)
            m1k = None
        nu, mu, m0, m1 = _staircase_level(m0, m1, r0, piv, rows, cols, p, m1k)
        if nu == 0:
            raise ArithmeticError("minimal indices not found within the degree cap")
        found += [level] * (nu - mu)
        rows, cols = rows - mu, cols - nu
        level += 1
    return tuple(found[:want])


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
    """Per-point kernel degrees of the pencil restricted to each dual line.

    pts_flat holds normalized coordinate triples; returns a flat list of
    2 * npoints ints (degree pair per point, ascending).  Consecutive points
    that share a form of their dual basis share its member, which is built
    once and reduced once it is shared; the staircase then runs with the
    shared member as B0 (see `splitting_scan` in _fastkern.c).  A shared
    member of full row rank also gets the products A_k*K with its kernel
    basis K, one triple per entry, so that level 0's B1*K is their
    combination by the other form.
    """
    npts = len(pts_flat) // 3
    entries = [(a0[i], a1[i], a2[i]) for i in range(rows * cols)]
    a_rows = [[a[i * cols : (i + 1) * cols] for i in range(rows)] for a in (a0, a1, a2)]
    out = [0] * (2 * npts)
    forms, members, level0 = [None, None], [None, None], [None, None]
    for n in range(npts):
        ls = _dual_basis_mod_p(pts_flat[3 * n], pts_flat[3 * n + 1], pts_flat[3 * n + 2], p)
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
            degs = _pencil_degrees(members[shared], members[1 - shared], rows, cols, p, 2, (r0, piv, m1k))
        else:
            degs = _pencil_degrees(members[0], members[1], rows, cols, p, 2)
        out[2 * n], out[2 * n + 1] = degs
    return out


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
    """Evaluate one form (coefficients + flat exponent triples) at many points."""
    exps, deg = _exponents(exps_flat, len(coeffs))
    terms = [(k, c % p) for k, c in enumerate(coeffs) if c % p]
    out = []
    for n in range(len(pts_flat) // 3):
        mv = _monomial_values(pts_flat[3 * n] % p, pts_flat[3 * n + 1] % p, pts_flat[3 * n + 2] % p, exps, deg, p)
        out.append(sum(c * mv[k] for k, c in terms) % p)
    return out


def form_matrix_scan(coeffs, exps_flat, rows: int, cols: int, pts_flat, p: int):
    """Rank and determinant of a rows x cols matrix of forms at each point.

    The entries share the monomials of exps_flat; coeffs holds the
    coefficients of each entry in turn, row by row.  Returns a flat list of
    2 * npoints ints: per point the rank of the evaluated matrix and its
    determinant, which is 0 unless the matrix is square and of full rank.
    """
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
    out = []
    for n in range(len(pts_flat) // 3):
        mv = _monomial_values(pts_flat[3 * n] % p, pts_flat[3 * n + 1] % p, pts_flat[3 * n + 2] % p, exps, deg, p)
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
        out += (len(piv), d)
    return out
